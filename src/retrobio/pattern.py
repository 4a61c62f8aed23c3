"""
Reaction templates: SMARTS-subset patterns, substructure matching and
backward template application.

A template is ``lhs>>rhs`` where the lhs pattern is matched against the
target molecule and the rhs describes the rewrite. Atom-atom map indices
``[C:1]`` pair atoms across the two sides: mapped atoms are kept and
updated, unmapped lhs atoms are deleted, unmapped rhs atoms are created
fresh. Templates that mention explicit hydrogen atoms are matched on the
hydrogen-expanded target; a rewrite copies only the hydrogens its match
claims and folds them back into counts. A deleted atom takes its H along.

Matching returns every injective constraint-satisfying assignment,
including permutations of interchangeable atoms. Rewriting happens once per
match site up to swaps of sibling hydrogens: matches that differ only by
which plain explicit H on one heavy atom fills a pattern atom give the same
outcome, so only the first is rewritten. Distinct outcomes are then
collapsed via canonical SMILES of the rewritten components.

Supported atomic constraints: element, aromaticity (lowercase/uppercase),
charge, total hydrogen count (``H``/``Hn``), explicit degree (``Dn``) and
the wildcard ``*``. Logical operators, recursive SMARTS and ring queries
are out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property

from .molgraph import (
    AROMATIC,
    SINGLE,
    Atom,
    Bond,
    MolecularGraph,
    SmilesSyntaxError,
    VALENCES,
    ORDER_VALENCE,
    _fold_anchor,
    _read_chain,
    _with_gained,
    add_explicit_hydrogens,
    canonicalize,
    implied_hydrogens,
    lowest_feasible_valence,
)
from .tsv import read_tsv

__all__ = [
    "PatternAtom",
    "PatternBond",
    "PatternGraph",
    "ReactionTemplate",
    "CandidatePrecursor",
    "TemplateError",
    "MissingArrow",
    "DuplicateMapIndexOnSide",
    "UnmappedRewriteReference",
    "RewriteProducedEmptyGraph",
    "parse_smarts",
    "parse_smarts_template",
    "find_matches",
    "apply_template",
    "enumerate_precursors",
    "load_templates",
]


class TemplateError(ValueError):
    """Invalid reaction template text."""


class MissingArrow(TemplateError):
    pass


class DuplicateMapIndexOnSide(TemplateError):
    pass


class UnmappedRewriteReference(TemplateError):
    pass


class RewriteProducedEmptyGraph(RuntimeError):
    """A rewrite deleted every atom; the template is degenerate."""


@dataclass(frozen=True, slots=True)
class PatternAtom:
    """One pattern atom; ``None`` fields are unconstrained (wildcard)."""

    element: str | None = None
    aromatic: bool | None = None
    charge: int | None = None
    degree: int | None = None
    h_count: int | None = None
    map_index: int | None = None

    def matches(self, mol: MolecularGraph, idx: int) -> bool:
        atom = mol.atoms[idx]
        if self.element is not None and atom.element != self.element:
            return False
        if self.aromatic is not None and atom.aromatic != self.aromatic:
            return False
        if self.charge is not None and atom.charge != self.charge:
            return False
        if self.degree is not None and mol.degree(idx) != self.degree:
            return False
        if self.h_count is not None and mol.total_hydrogens(idx) != self.h_count:
            return False
        return True


@dataclass(frozen=True, slots=True)
class PatternBond:
    """Pattern bond; ``order`` None means "single or aromatic"."""

    a: int
    b: int
    order: str | None = None

    @property
    def orders(self) -> tuple[str, ...]:
        """The target bond orders this bond accepts."""
        return (SINGLE, AROMATIC) if self.order is None else (self.order,)


@dataclass(frozen=True)
class PatternGraph:
    atoms: tuple[PatternAtom, ...]
    bonds: tuple[PatternBond, ...]
    _adjacency: tuple[tuple[tuple[int, "PatternBond"], ...], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        adj: list[list[tuple[int, PatternBond]]] = [[] for _ in self.atoms]
        for bond in self.bonds:
            adj[bond.a].append((bond.b, bond))
            adj[bond.b].append((bond.a, bond))
        object.__setattr__(self, "_adjacency", tuple(tuple(x) for x in adj))

    def neighbors(self, idx: int) -> tuple[tuple[int, PatternBond], ...]:
        return self._adjacency[idx]

    def map_table(self) -> dict[int, int]:
        """map_index -> atom index; raises on duplicates."""
        table: dict[int, int] = {}
        for i, atom in enumerate(self.atoms):
            if atom.map_index is None:
                continue
            if atom.map_index in table:
                raise DuplicateMapIndexOnSide(
                    f"map index {atom.map_index} appears twice on one side"
                )
            table[atom.map_index] = i
        return table


@dataclass(frozen=True)
class ReactionTemplate:
    """A parsed ``lhs>>rhs`` transformation plus catalog metadata.

    ``mapping`` holds (map_index, lhs_atom, rhs_atom) triples; the map-index
    sets of the two sides must coincide (checked at parse time).
    """

    template_id: str
    lhs: PatternGraph
    rhs: PatternGraph
    mapping: tuple[tuple[int, int, int], ...]
    ec_numbers: tuple[str, ...] = ()
    smarts: str = ""

    @property
    def uses_explicit_hydrogens(self) -> bool:
        return any(a.element == "H" for a in self.lhs.atoms + self.rhs.atoms)

    @cached_property
    def _plan(self):
        return _rewrite_plan(self)


@dataclass(frozen=True)
class CandidatePrecursor:
    """A deduplicated precursor set with its (template_id, ec_numbers)
    records and the graphs of its keys from the first rewrite that made it."""

    precursor_keys: tuple[str, ...]
    provenance: tuple[tuple[str, tuple[str, ...]], ...]  # (template_id, ecs)
    precursors: tuple[MolecularGraph, ...] = field(default=(), compare=False, repr=False)


# ---------------------------------------------------------------------------
# Parsing


def parse_smarts(text: str) -> PatternGraph:
    """Parse one side of a template into a PatternGraph."""
    tokens, links = _read_chain(text, pattern=True)
    atoms = tuple(
        PatternAtom(
            element=token["element"],
            aromatic=token["aromatic"],
            charge=token["charge"],
            degree=token["degree"],
            h_count=token["hydrogens"],
            map_index=token["map_index"],
        )
        for token in tokens
    )
    bonds = tuple(PatternBond(a, b, order) for a, b, order in links)
    return PatternGraph(atoms, bonds)


def parse_smarts_template(
    text: str,
    template_id: str = "",
    ec_numbers: tuple[str, ...] = (),
) -> ReactionTemplate:
    """Parse ``lhs>>rhs`` and build the atom-atom mapping table.

    Raises MissingArrow, DuplicateMapIndexOnSide, UnmappedRewriteReference,
    or a syntax error carrying the byte offset within the offending side.
    """
    pieces = text.split(">>")
    if len(pieces) != 2:
        raise MissingArrow(
            f"template must contain exactly one '>>', found {len(pieces) - 1}"
        )
    lhs = parse_smarts(pieces[0])
    rhs = parse_smarts(pieces[1])
    lhs_table = lhs.map_table()
    rhs_table = rhs.map_table()
    if set(lhs_table) != set(rhs_table):
        only_lhs = sorted(set(lhs_table) - set(rhs_table))
        only_rhs = sorted(set(rhs_table) - set(lhs_table))
        raise UnmappedRewriteReference(
            f"map indices must pair up across '>>': lhs-only {only_lhs}, "
            f"rhs-only {only_rhs}"
        )
    for i, atom in enumerate(rhs.atoms):
        if atom.map_index is None and atom.element is None:
            raise SmilesSyntaxError(
                "unmapped rewrite atom needs a concrete element", 0
            )
    mapping = tuple(
        (m, lhs_table[m], rhs_table[m]) for m in sorted(lhs_table)
    )
    return ReactionTemplate(
        template_id=template_id,
        lhs=lhs,
        rhs=rhs,
        mapping=mapping,
        ec_numbers=tuple(ec_numbers),
        smarts=text,
    )


def _template_row(template_id, direction, diameter, ecs, smarts):
    if direction != "bwd":
        raise TemplateError(
            f"direction must be bwd, got {direction!r}; "
            "templates are applied backward only"
        )
    try:
        valid = int(diameter) >= 0
    except ValueError:
        valid = False
    if not valid:
        raise TemplateError(
            f"diameter must be a non-negative integer, got {diameter!r}"
        )
    return parse_smarts_template(
        smarts,
        template_id=template_id,
        ec_numbers=tuple(e for e in ecs.split(";") if e),
    )


def load_templates(path) -> list[ReactionTemplate]:
    """Read the template TSV: template_id, direction, diameter, ec_numbers,
    smarts. '#'-prefixed lines are comments. Only 'bwd' templates are
    accepted; every malformed row, and a repeated template id, raises
    TemplateError naming path:line."""
    return read_tsv(path, 5, _template_row, error=TemplateError, unique="template id")


# ---------------------------------------------------------------------------
# Matching


def _match_order(pattern: PatternGraph, candidates: list[frozenset[int]]) -> list[int]:
    """Pattern-atom processing order: each next atom is the one with the
    fewest candidates (then the lowest index) among those bonded to an
    already-placed atom, or among all atoms left when none is, so bonds
    prune early."""
    remaining = set(range(len(pattern.atoms)))
    frontier: set[int] = set()
    order: list[int] = []
    while remaining:
        nxt = min(frontier or remaining, key=lambda i: (len(candidates[i]), i))
        order.append(nxt)
        remaining.remove(nxt)
        frontier.discard(nxt)
        frontier.update(j for j, _ in pattern.neighbors(nxt) if j in remaining)
    return order


def find_matches(
    pattern: PatternGraph, target: MolecularGraph, candidates_of: dict | None = None
) -> list[tuple[int, ...]]:
    """All injective assignments of pattern atoms to target atoms.

    Every returned tuple maps pattern atom i to target atom tuple[i], all
    atom constraints hold, and every pattern bond lands on a target bond of
    compatible order. Results are sorted lexicographically, so the output is
    independent of search heuristics.

    ``candidates_of`` memoizes, per pattern atom's constraints, the set of
    target atoms that meet them; patterns matched on one target may share
    it (``_Prepared`` keeps one per hydrogen form). A pattern atom bonded to
    an earlier-placed one is drawn from that atom's target neighbours and
    kept if it is in its set; further bonds are read from per-atom
    neighbour dicts.
    """
    if candidates_of is None:
        candidates_of = {}
    candidates = []
    for p in pattern.atoms:
        key = (p.element, p.aromatic, p.charge, p.degree, p.h_count)
        found = candidates_of.get(key)
        if found is None:
            found = candidates_of[key] = frozenset(
                t for t in range(len(target.atoms)) if p.matches(target, t)
            )
        if not found:
            return []
        candidates.append(found)
    order = _match_order(pattern, candidates)
    n = len(order)
    if not n:
        return [()]
    depth_of = {p: d for d, p in enumerate(order)}
    # Per depth: the atom's candidates and its bonds to atoms placed at
    # earlier depths, as (that depth, the target bond orders it accepts).
    steps = []
    for d, p in enumerate(order):
        links = [
            (depth_of[q], bond.orders)
            for q, bond in pattern.neighbors(p)
            if depth_of[q] < d
        ]
        steps.append((candidates[p], links[0] if links else None, links[1:]))
    slots = [depth_of[p] for p in range(n)]
    adjacency = target._adjacency
    orders = [dict(pairs) for pairs in adjacency] if any(s[2] for s in steps) else None
    chosen = [0] * n
    used: set[int] = set()
    results: list[tuple[int, ...]] = []

    def pool_at(d: int):
        pool, first, _ = steps[d]
        if first is None:
            return iter(pool)
        q, accepted = first
        return iter([v for v, o in adjacency[chosen[q]] if v in pool and o in accepted])

    # Depth-first over an explicit stack of candidate iterators, one per
    # placed depth, so a long pattern takes no Python frame per atom.
    stack = [pool_at(0)]
    while stack:
        d = len(stack) - 1
        rest = steps[d][2]
        for t in stack[d]:
            if t in used or rest and any(orders[chosen[q]].get(t) not in ok for q, ok in rest):
                continue
            chosen[d] = t
            if d + 1 == n:
                results.append(tuple([chosen[s] for s in slots]))
                continue
            used.add(t)
            stack.append(pool_at(d + 1))
            break
        else:
            stack.pop()
            if stack:
                used.remove(chosen[d - 1])
    results.sort()
    return results


# ---------------------------------------------------------------------------
# Rewriting


def _concrete_order(rhs: PatternGraph, bond: PatternBond) -> str:
    """Resolve a rewrite-side bond to a concrete order."""
    if bond.order is not None:
        return bond.order
    if (
        rhs.atoms[bond.a].aromatic is True
        and rhs.atoms[bond.b].aromatic is True
    ):
        return AROMATIC
    return SINGLE


# Valence rules by (element, bond valence, charge), looked up per atom of
# every rewrite.
_feasible = cache(lowest_feasible_valence)
_implied = cache(implied_hydrogens)


def _sanitize(mol: MolecularGraph) -> bool:
    """Valence check plus structural aromaticity consistency. The ring
    search runs only once an aromatic atom needs it."""
    ring_atoms = None
    for idx, atom in enumerate(mol.atoms):
        if atom.aromatic:
            if ring_atoms is None:
                ring_atoms = {i for pair in mol.ring_bonds() for i in pair}
            if idx not in ring_atoms:
                return False
        if atom.element not in VALENCES:
            continue
        # Explicit H neighbours are already part of the bond sum.
        valence = atom.hydrogens
        for _, o in mol.neighbors(idx):
            valence += ORDER_VALENCE[o]
        if _feasible(atom.element, valence, atom.charge) is None:
            return False
    for bond in mol.bonds:
        if bond.order == AROMATIC and not (
            mol.atoms[bond.a].aromatic and mol.atoms[bond.b].aromatic
        ):
            return False
    return True


def _rewrite_plan(template: ReactionTemplate):
    """The per-template part of a rewrite, in pattern atom indices: the lhs
    atoms it deletes, the lhs bonds between mapped atoms that the rhs does
    not repeat, and the rhs bonds with their concrete orders."""
    lhs, rhs = template.lhs, template.rhs
    mapped_lhs = {l for _, l, _ in template.mapping}
    lhs_to_rhs = {l: r for _, l, r in template.mapping}
    rhs_pairs = {(min(b.a, b.b), max(b.a, b.b)) for b in rhs.bonds}
    deleted = [i for i in range(len(lhs.atoms)) if i not in mapped_lhs]
    broken = []
    for bond in lhs.bonds:
        if bond.a in mapped_lhs and bond.b in mapped_lhs:
            ra, rb = lhs_to_rhs[bond.a], lhs_to_rhs[bond.b]
            if (min(ra, rb), max(ra, rb)) not in rhs_pairs:
                broken.append((bond.a, bond.b))
    made = [(b.a, b.b, _concrete_order(rhs, b)) for b in rhs.bonds]
    return deleted, broken, made


class _Prepared:
    """What the templates applied to one target share: the canonical-key
    memo ``keys_of`` by (atoms, bonds), and per hydrogen form the graph
    matched with its ``_site_tokens`` (``form``) and its ``find_matches``
    candidate memo (``candidates``)."""

    def __init__(self, target: MolecularGraph, keys_of: dict):
        self.target, self.keys_of, self.forms, self.candidates = target, keys_of, {}, {}
        self.rows = [tuple(sorted(row)) for row in target._adjacency]

    def form(self, explicit: bool) -> tuple[MolecularGraph, list]:
        if explicit not in self.forms:
            work = add_explicit_hydrogens(self.target) if explicit else self.target
            self.forms[explicit] = (work, _site_tokens(work))
            self.candidates[explicit] = {}
        return self.forms[explicit]


def _rewrite(
    template: ReactionTemplate,
    work: MolecularGraph,
    match: tuple[int, ...],
    plan,
    prepared: _Prepared,
) -> tuple[tuple[MolecularGraph, ...], tuple[str, ...]] | None:
    """Apply the rewrite at one match site of ``work``, a ``prepared.form``,
    to the target plus the hydrogens ``match`` claims (as atoms after the
    target's, in ``work`` order); ``plan`` is the template's ``_rewrite_plan``.
    An anchor keeps its unclaimed hydrogens as a count, on top of any count
    the rewrite sets; a deleted atom takes them with it.

    The site pays for what it changes: only the atoms it touches get a
    neighbour dict of their own, the others keep the target's sorted rows
    (``prepared.rows``), and each changed atom is built once.

    Returns (precursor graphs, sorted canonical keys), or None when the
    result fails valence/aromaticity sanitization.
    """
    deleted_lhs, broken, made = plan
    rhs = template.rhs
    atoms: list[Atom] = list(prepared.target.atoms)
    n = len(atoms)
    neighbors: list = list(prepared.rows)
    rows: dict[int, dict[int, str]] = {}
    place: dict[int, int] = {}
    for h in sorted(i for i in match if i >= n):
        anchor = work.neighbors(h)[0][0]
        place[h] = idx = len(atoms)
        atoms.append(work.atoms[h])
        neighbors.append(())
        rows[idx] = {anchor: SINGLE}
        if anchor not in rows:
            rows[anchor] = dict(neighbors[anchor])
        rows[anchor][idx] = SINGLE
        atoms[anchor] = _with_gained(atoms[anchor], -1)
    # Below ``counted``, an atom's stored hydrogens are unclaimed ones it
    # keeps; without expansion, a changed atom's count is recomputed whole.
    counted = len(atoms) if work is not prepared.target else 0
    if place:
        match = tuple([place.get(i, i) for i in match])
    for t in match:
        if t not in rows:
            rows[t] = dict(neighbors[t])
    rhs_to_target = {r: match[l] for _, l, r in template.mapping}

    # Unmapped lhs atoms delete their matched target atom and its bonds.
    deleted = {match[i] for i in deleted_lhs}
    dirty: set[int] = set()
    for t in deleted:
        for v in rows[t]:
            if v not in rows:
                rows[v] = dict(neighbors[v])
            del rows[v][t]
            dirty.add(v)

    # Fresh atoms for unmapped rhs atoms.
    for r, p in enumerate(rhs.atoms):
        if p.map_index is not None:
            continue
        rhs_to_target[r] = idx = len(atoms)
        atoms.append(Atom(p.element, bool(p.aromatic), p.h_count or 0, p.charge or 0))
        neighbors.append(())
        rows[idx] = {}
        if p.h_count is None:
            dirty.add(idx)

    # Property updates on mapped atoms, one new atom for each that changes.
    h_fixed: set[int] = set()
    for _, l, r in template.mapping:
        t = match[l]
        dirty.add(t)
        p = rhs.atoms[r]
        atom = atoms[t]
        hydrogens = atom.hydrogens
        if p.h_count is not None:
            hydrogens = p.h_count + (hydrogens if t < counted else 0)
            h_fixed.add(t)
        element = atom.element if p.element is None else p.element
        aromatic = atom.aromatic if p.aromatic is None else p.aromatic
        charge = atom.charge if p.charge is None else p.charge
        if (element, aromatic, hydrogens, charge) != (
            atom.element, atom.aromatic, atom.hydrogens, atom.charge
        ):
            atoms[t] = Atom(element, aromatic, hydrogens, charge, atom.map_index)

    # lhs bonds between two mapped atoms: deleted unless rhs repeats them.
    for a, b in broken:
        u, v = match[a], match[b]
        if v in rows[u]:
            del rows[u][v], rows[v][u]
            dirty.update((u, v))

    # rhs bonds, covering order changes, new bonds and fresh-atom bonds.
    for a, b, order in made:
        u, v = rhs_to_target[a], rhs_to_target[b]
        if rows[u].get(v) != order:
            rows[u][v] = rows[v][u] = order
            dirty.update((u, v))

    for u, row in rows.items():
        neighbors[u] = tuple(sorted(row.items()))
    # Recompute stored hydrogens where the environment changed; unclaimed
    # hydrogens weigh as single bonds and are kept.
    for t in sorted(dirty - deleted):
        if t in h_fixed:
            continue
        atom = atoms[t]
        if atom.element not in VALENCES:
            continue
        spare = bond_valence = atom.hydrogens if t < counted else 0
        for _, o in neighbors[t]:
            bond_valence += ORDER_VALENCE[o]
        h = _implied(atom.element, bond_valence, atom.charge)
        if h is None:
            return None  # valence blown; sanitization failure
        if h + spare != atom.hydrogens:
            atoms[t] = Atom(atom.element, atom.aromatic, h + spare, atom.charge, atom.map_index)

    survivors = [i for i in range(len(atoms)) if i not in deleted]
    if not survivors:
        raise RewriteProducedEmptyGraph(
            f"template {template.template_id or template.smarts!r} deleted "
            "every atom of the target"
        )
    keys_of = prepared.keys_of
    precursors = []
    keys = []
    for sub in _fold_and_split(atoms, survivors, neighbors):
        # Only sanitized graphs get a key, so a known graph is sane.
        key = keys_of.get(graph := (sub.atoms, sub.bonds))
        if key is None:
            if not _sanitize(sub):
                return None
            key = keys_of[graph] = canonicalize(sub)
        precursors.append(sub)
        keys.append(key)
    order_idx = sorted(range(len(keys)), key=lambda i: keys[i])
    return (
        tuple(precursors[i] for i in order_idx),
        tuple(keys[i] for i in order_idx),
    )


# Each (low, high, order) bond is one shared object, so the graphs that a
# run-wide key memo holds share their bonds instead of each keeping copies.
_bond = cache(Bond)


def _fold_and_split(atoms: list[Atom], survivors: list[int], neighbors) -> list[MolecularGraph]:
    """One graph per connected component of the ``survivors`` of the
    rewritten atoms, with each plain H atom folded into its anchor's count;
    ``neighbors[i]`` is atom i's tuple of (neighbour, bond order) pairs in
    neighbour order.

    Each graph equals ``remove_explicit_hydrogens`` of the component's
    induced subgraph, atom and bond order and ``_adjacency`` included:
    components come in order of their lowest atom index and atoms keep
    index order. An atom's ``_adjacency`` row is its neighbours in index
    order, which also lists its bonds to higher atoms in the (low, high)
    order of the bond table, so one pass over the atoms builds both; a row
    whose neighbours all keep their index is used as it is.
    """
    folded: set[int] = set()
    gained: dict[int, int] = {}
    for t in survivors:
        if atoms[t].element == "H":
            anchor = _fold_anchor(atoms[t], neighbors[t], atoms)
            if anchor is not None:
                folded.add(t)
                gained[anchor] = gained.get(anchor, 0) + 1
    seen: set[int] = set()
    graphs = []
    for start in survivors:
        if start in seen:
            continue
        seen.add(start)
        stack, kept = [start], []
        while stack:
            u = stack.pop()
            if u not in folded:
                kept.append(u)
            for v, _ in neighbors[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        kept.sort()
        gap = 0  # atoms below ``gap`` keep their index
        while gap < len(kept) and kept[gap] == gap:
            gap += 1
        local = {u: i for i, u in enumerate(kept)}
        comp_atoms, comp_bonds, comp_rows = [], [], []
        for a, u in enumerate(kept):
            row = neighbors[u]
            if row and row[-1][0] >= gap:
                row = tuple([(local[v], o) for v, o in row if v in local])
            comp_rows.append(row)
            for b, o in row:
                if b > a:
                    comp_bonds.append(_bond(a, b, o))
            comp_atoms.append(_with_gained(atoms[u], gained[u]) if u in gained else atoms[u])
        graphs.append(
            MolecularGraph._built(tuple(comp_atoms), tuple(comp_bonds), tuple(comp_rows))
        )
    return graphs


def _site_tokens(mol: MolecularGraph) -> list:
    """What a match site records of each atom of ``mol``: its index, or for
    a plain explicit H its anchor and its atom value.

    Two plain H with one anchor and equal atoms are swapped by an
    automorphism of ``mol``, so two matches whose tokens are equal rewrite
    to the same outcome.
    """
    tokens: list = list(range(len(mol.atoms)))
    for idx, atom in enumerate(mol.atoms):
        anchor = _fold_anchor(atom, mol.neighbors(idx), mol.atoms)
        if anchor is not None:
            tokens[idx] = (anchor, atom)
    return tokens


def apply_template(
    template: ReactionTemplate,
    target: MolecularGraph,
    *,
    prepared: _Prepared | None = None,
) -> list[CandidatePrecursor]:
    """Apply a template at every distinct match site and deduplicate outcomes.

    A template that mentions explicit hydrogens is matched on the
    hydrogen-expanded target. Matching returns every permutation, but
    matches that differ only by which sibling plain H fills a pattern atom
    are one site, and only a site's first match (in deterministic match
    order) is rewritten, copying only the hydrogens it claims: the others
    are its images under an automorphism of the target. Results failing
    sanitization are dropped; distinct outcomes are keyed by the multiset
    of component canonical SMILES, and the first match wins, as if every
    match were rewritten. Each outcome carries the template's one record.

    ``prepared`` lets a caller that applies many templates to one target
    expand its hydrogens once, share one match index per hydrogen form and
    canonicalize each precursor graph once: ``enumerate_precursors`` passes
    one per target. The rewrite plan is computed once per template.
    """
    explicit = template.uses_explicit_hydrogens
    if prepared is None:
        prepared = _Prepared(target, {})
    work, tokens = prepared.form(explicit)
    plan = template._plan
    record = ((template.template_id, template.ec_numbers),)
    out: list[CandidatePrecursor] = []
    sites: set[tuple] = set()
    seen: set[tuple[str, ...]] = set()
    for match in find_matches(template.lhs, work, prepared.candidates[explicit]):
        site = tuple(map(tokens.__getitem__, match))
        if site in sites:
            continue
        sites.add(site)
        rewritten = _rewrite(template, work, match, plan, prepared)
        if rewritten is None:
            continue
        precursors, keys = rewritten
        if keys in seen:
            continue
        seen.add(keys)
        out.append(CandidatePrecursor(keys, record, precursors))
    return out


def enumerate_precursors(
    target: MolecularGraph,
    templates: list[ReactionTemplate],
    keys_of: dict | None = None,
) -> list[CandidatePrecursor]:
    """Union of ``apply_template`` outcomes with merged provenance.

    Candidates are deduplicated by precursor-key multiset across templates;
    each retains every (template_id, ec_numbers) record that produced it,
    and the precursor graphs of the first outcome that did.
    Output order is (first template_id, canonical key).

    ``keys_of`` memoizes the canonical key of each precursor graph by its
    (atoms, bonds); a caller enumerating many targets can pass one dict to
    every call, so a graph that several targets rewrite to is canonicalized
    once. By default each call starts a fresh one.
    """
    merged: dict[tuple[str, ...], tuple[tuple[MolecularGraph, ...], list]] = {}
    prepared = _Prepared(target, {} if keys_of is None else keys_of)
    for template in sorted(templates, key=lambda t: t.template_id):
        try:
            outcomes = apply_template(template, target, prepared=prepared)
        except RewriteProducedEmptyGraph:
            continue
        record = (template.template_id, template.ec_numbers)
        for outcome in outcomes:
            _, provenance = merged.setdefault(
                outcome.precursor_keys, (outcome.precursors, [])
            )
            if record not in provenance:
                provenance.append(record)
    candidates = [
        CandidatePrecursor(keys, tuple(provenance), precursors)
        for keys, (precursors, provenance) in merged.items()
    ]
    candidates.sort(key=lambda c: (c.provenance[0][0], c.precursor_keys))
    return candidates
