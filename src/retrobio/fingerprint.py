"""
Circular hashed fingerprints and similarity math.

A molecule fingerprint is a fixed-width bit vector. Every atom contributes
one code per radius r = 0..R. The r=0 code is ``hash_words([w])`` of the
atom invariant word that ``molgraph.atom_words`` computes,

    w = element number | min(degree, 15) << 8 | (charge & 0xFF) << 12
        | min(total hydrogens, 15) << 20 | aromatic << 24

(degree and total hydrogens count explicit H neighbours). Each later code
is ``hash_words`` of the atom's previous code followed by its (bond code,
neighbour code) pairs in ascending order, flattened; bond codes are single
1, double 2, triple 3, aromatic 4. An atom stops contributing new codes
once its neighbourhood ball stopped growing in the previous round, so an
isolated atom yields exactly two codes (r=0 and r=1) no matter the radius.
Round r reads only whether the ball grew in round r - 1, so ball growth is
followed for ``radius - 1`` rounds. Each code sets bit ``code mod width``.

Every atom sets its r=0 bit, which depends on its word alone, so two
molecules that share an atom word share a bit at every width and radius
(the radius-0 property of circular fingerprints, Rogers & Hahn, JCIM 50,
742, 2010). ``dataset.flag_disjoint_products`` decides most reactions from
the words alone by it.

The 64-bit mixing hash is fixed and documented here so fingerprints are
bit-exact across implementations; test vectors live in the test suite.
Multi-component graphs OR their per-component bits, which is what computing
on the whole graph already does, because balls never cross components.

There is one implementation, ``molecule_fingerprints``, and it takes a
batch: SplitMix64 runs on uint64 arrays over every atom of the batch, which
is bit-exact because uint64 multiplication wraps mod 2**64. The scalar
rule above is kept in the test suite as the reference it is checked
against.

Reaction feature vectors concatenate the target block first, then one block
per precursor step (1024 bits for one step, 1536 for two at the default
512-bit molecule width). ``Fingerprinter.features`` is where both rules of a
ranker row live: the row layout (each group of keys OR-combined into one
block) and the batching (every key of the call fingerprinted in one batch).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .molgraph import (
    AROMATIC,
    DOUBLE,
    MolecularGraph,
    SINGLE,
    TRIPLE,
    atom_words,
    parse_smiles,
)

__all__ = [
    "Fingerprint",
    "ReactionFeature",
    "WidthMismatch",
    "NegativeParameter",
    "mix64",
    "hash_words",
    "molecule_fingerprints",
    "combine_fingerprints",
    "reaction_feature",
    "pack_features",
    "tanimoto",
    "tversky",
    "Fingerprinter",
]

_M64 = (1 << 64) - 1
_SEED = 0x243F6A8885A308D3  # first 64 fractional bits of pi


class WidthMismatch(ValueError):
    pass


class NegativeParameter(ValueError):
    pass


_MIX_SHIFTS = (np.uint64(30), np.uint64(27), np.uint64(31))
_MIX_MULTIPLIERS = (np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB))


def _mix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer over a uint64 array, as a new array. numpy's
    uint64 multiply wraps mod 2**64 and xor-shifts are exact, so every
    element is the 64-bit result, bit for bit."""
    s30, s27, s31 = _MIX_SHIFTS
    x = x ^ (x >> s30)
    x *= _MIX_MULTIPLIERS[0]
    x ^= x >> s27
    x *= _MIX_MULTIPLIERS[1]
    x ^= x >> s31
    return x


def mix64(x: int) -> int:
    """SplitMix64 finalizer: the fixed bijective 64-bit mixer."""
    return int(_mix64(np.array([x & _M64], dtype=np.uint64))[0])


def hash_words(words: Iterable[int]) -> int:
    """Chain-hash a word sequence: h := mix64(h xor w), seeded with pi bits."""
    h = np.array([_SEED], dtype=np.uint64)
    for w in words:
        h = _mix64(h ^ np.uint64(w & _M64))
    return int(h[0])


_BOND_CODE = {SINGLE: 1, DOUBLE: 2, TRIPLE: 3, AROMATIC: 4}


def _unpack_bits(bits: int, width: int) -> np.ndarray:
    """The low ``width`` bits of ``bits`` as a float32 0/1 vector, index i =
    bit i."""
    packed = np.frombuffer(bits.to_bytes((width + 7) // 8, "little"), np.uint8)
    return np.unpackbits(packed, count=width, bitorder="little").astype(np.float32)


@dataclass(frozen=True, slots=True)
class Fingerprint:
    """A bit vector stored as a Python int; bit i is ``bits >> i & 1``."""

    bits: int
    width: int

    def __post_init__(self):
        if self.width <= 0 or self.width & (self.width - 1):
            raise ValueError(f"width must be a power of two, got {self.width}")
        if self.bits < 0 or self.bits >> self.width:
            raise ValueError("bits outside the declared width")

    def popcount(self) -> int:
        return self.bits.bit_count()

    def to_array(self) -> np.ndarray:
        """Dense float32 vector, index i = bit i."""
        return _unpack_bits(self.bits, self.width)


def _ball_growth(mol: MolecularGraph, depth: int) -> list[int]:
    """Per atom, how many of the first ``depth`` rounds grew its
    neighbourhood ball: its eccentricity (within its component) capped at
    ``depth``. Balls are atom-index bitsets; a ball that stops growing never
    grows again."""
    balls = [1 << i for i in range(len(mol.atoms))]
    grown = [0] * len(balls)
    for k in range(1, depth + 1):
        wider = list(balls)
        for bond in mol.bonds:
            wider[bond.a] |= balls[bond.b]
            wider[bond.b] |= balls[bond.a]
        for i, ball in enumerate(wider):
            if ball != balls[i]:
                grown[i] = k
        balls = wider
    return grown


def molecule_fingerprints(
    mols: Iterable[MolecularGraph], width: int = 512, radius: int = 2
) -> list[Fingerprint]:
    """Hash the circular atom environments up to ``radius`` of each molecule
    into a bit vector, every molecule of the batch in one pass.

    Each graph is read once, in order, into flat per-atom and per-bond
    lists, so an iterator of graphs holds one graph at a time. The hashing
    then runs on uint64 arrays over all atoms of the batch: each round
    sorts every atom's (bond code, neighbour code) pairs with one lexsort
    and chain-hashes them position by position, an atom taking part only
    while it has a neighbour left. That is the word sequence and hash chain
    of the rule above, so a molecule's bits do not depend on its batch.
    """
    if width <= 0 or width & (width - 1):
        raise ValueError(f"width must be a power of two, got {width}")
    # Packed uint64, not a list: a word with its degree bits is too large to
    # be one of Python's shared small ints, so a list would hold one int
    # object per atom of the batch.
    words = array("Q")
    ends: list[int] = []  # bond end atoms, pairwise
    bond_codes: list[int] = []
    grown: list[int] = []
    sizes: list[int] = []
    for mol in mols:
        base = len(words)
        words.extend(atom_words(mol))
        for bond in mol.bonds:
            ends += (bond.a + base, bond.b + base)
        bond_codes += [_BOND_CODE[bond.order] for bond in mol.bonds]
        # Round r adds atom i's code while r <= ecc(i) + 1, which for r up
        # to radius needs ecc(i) only up to radius - 1.
        grown += _ball_growth(mol, radius - 1)
        sizes.append(len(mol.atoms))
    if not sizes:
        return []

    # Bonds as directed edges (atom, neighbour), each bond both ways.
    pairs = np.array(ends, dtype=np.intp).reshape(-1, 2)
    src = np.concatenate([pairs[:, 0], pairs[:, 1]])
    dst = np.concatenate([pairs[:, 1], pairs[:, 0]])
    bond = np.tile(np.array(bond_codes, dtype=np.uint64), 2)
    n = len(words)
    degree = np.bincount(src, minlength=n)
    seed = np.uint64(_SEED)
    codes = _mix64(np.frombuffer(words, dtype=np.uint64) ^ seed)

    # After the lexsort, atom i's pairs are the edges start[i] onward; at
    # position p the atoms of degree above p hash their p-th pair.
    start = np.cumsum(degree) - degree
    positions = []
    for p in range(int(degree.max(initial=0))):
        atoms = np.flatnonzero(degree > p)
        positions.append((atoms, start[atoms] + p))
    molecule = np.repeat(np.arange(len(sizes)), sizes)
    ecc = np.array(grown)
    hit = np.zeros((len(sizes), width), dtype=bool)
    low = np.uint64(width - 1)
    hit[molecule, (codes & low).astype(np.intp)] = True
    for r in range(1, radius + 1):
        neighbour = codes[dst]
        order = np.lexsort((neighbour, bond, src))
        bond_sorted, neighbour_sorted = bond[order], neighbour[order]
        h = _mix64(codes ^ seed)
        for atoms, edges in positions:
            h[atoms] = _mix64(_mix64(h[atoms] ^ bond_sorted[edges]) ^ neighbour_sorted[edges])
        codes = h
        on = ecc >= r - 1
        hit[molecule[on], (codes[on] & low).astype(np.intp)] = True
    packed = np.packbits(hit, axis=1, bitorder="little")
    data, nbytes = packed.tobytes(), packed.shape[1]
    return [
        Fingerprint(int.from_bytes(data[k : k + nbytes], "little"), width)
        for k in range(0, len(data), nbytes)
    ]


def combine_fingerprints(fps: Sequence[Fingerprint]) -> Fingerprint:
    """OR a non-empty group of equal-width fingerprints into one block."""
    if not fps:
        raise ValueError("cannot combine an empty fingerprint group")
    if len(fps) == 1:  # a Fingerprint is immutable, so it is its own block
        return fps[0]
    width = fps[0].width
    bits = 0
    for fp in fps:
        if fp.width != width:
            raise WidthMismatch(f"widths differ: {fp.width} != {width}")
        bits |= fp.bits
    return Fingerprint(bits, width)


@dataclass(frozen=True, slots=True)
class ReactionFeature:
    """Concatenated feature vector; block 0 is the target."""

    bits: int
    block_width: int
    blocks: int

    @property
    def width(self) -> int:
        return self.block_width * self.blocks

    def block(self, k: int) -> Fingerprint:
        if not 0 <= k < self.blocks:
            raise IndexError(k)
        mask = (1 << self.block_width) - 1
        return Fingerprint((self.bits >> (k * self.block_width)) & mask,
                           self.block_width)

    def to_array(self) -> np.ndarray:
        return _unpack_bits(self.bits, self.width)


def reaction_feature(
    target: Fingerprint, precursors: Sequence[Fingerprint]
) -> ReactionFeature:
    """Concatenate target-first with one block per precursor step.

    One step gives 2x the molecule width, two steps 3x. Each entry must
    already be the OR-combined block of its step's molecules.
    """
    if len(precursors) not in (1, 2):
        raise ValueError("reaction features take 1 or 2 precursor blocks")
    width = target.width
    bits = target.bits
    for k, fp in enumerate(precursors, start=1):
        if fp.width != width:
            raise WidthMismatch(f"precursor width {fp.width} != {width}")
        bits |= fp.bits << (k * width)
    return ReactionFeature(bits, width, 1 + len(precursors))


def pack_features(features: Sequence[ReactionFeature]) -> np.ndarray:
    """Equal-width features as one (n, width/8) uint8 array of their bits in
    little-endian bit order, the packed input that ``neural.forward`` takes."""
    nbytes = (features[0].width + 7) // 8 if features else 0
    if any(f.width != features[0].width for f in features):
        raise WidthMismatch("features of one batch differ in width")
    packed = b"".join(f.bits.to_bytes(nbytes, "little") for f in features)
    return np.frombuffer(packed, np.uint8).reshape(len(features), nbytes)


def tanimoto(a: Fingerprint, b: Fingerprint) -> float:
    """|A and B| / |A or B|; two zero vectors score 0 by convention."""
    if a.width != b.width:
        raise WidthMismatch(f"widths differ: {a.width} != {b.width}")
    inter = (a.bits & b.bits).bit_count()
    union = (a.bits | b.bits).bit_count()
    return inter / union if union else 0.0


def tversky(a: Fingerprint, b: Fingerprint, alpha: float, beta: float) -> float:
    """Asymmetric similarity; alpha = beta = 1 reduces to tanimoto."""
    if a.width != b.width:
        raise WidthMismatch(f"widths differ: {a.width} != {b.width}")
    if alpha < 0 or beta < 0:
        raise NegativeParameter("alpha and beta must be non-negative")
    inter = (a.bits & b.bits).bit_count()
    only_a = (a.bits & ~b.bits).bit_count()
    only_b = (b.bits & ~a.bits).bit_count()
    denominator = inter + alpha * only_a + beta * only_b
    return inter / denominator if denominator else 0.0


class Fingerprinter:
    """Memoizing fingerprint factory keyed by canonical SMILES, at the
    default 512-bit width and radius 2. The memo lives in memory only.
    ``features`` builds ranker rows; a caller that already holds graphs
    hands them to ``memoize`` first, so their keys are not parsed again."""

    def __init__(self):
        self._cache: dict[str, Fingerprint] = {}

    def memoize(self, pairs: Iterable[tuple[str, MolecularGraph | None]]) -> None:
        """Fingerprint, in one batch, every key of the (key, graph) ``pairs``
        that the memo does not hold. A graph is the caller's molecule of its
        key, the first one given for a key is used, and a key given with
        None is parsed."""
        todo: dict[str, MolecularGraph | None] = {}
        for key, mol in pairs:
            if key not in self._cache:
                todo.setdefault(key, mol)
        graphs = (parse_smiles(k) if m is None else m for k, m in todo.items())
        self._cache.update(zip(todo, molecule_fingerprints(graphs)))

    def of_key(self, key: str) -> Fingerprint:
        """Fingerprint of a canonical key. A memo miss parses the key and
        fingerprints it as a batch of one."""
        if key not in self._cache:
            self.memoize([(key, None)])
        return self._cache[key]

    def of_keys(self, keys: Sequence[str]) -> Fingerprint:
        """OR-combined block for a molecule set."""
        return combine_fingerprints([self.of_key(k) for k in keys])

    def features(
        self, rows: Sequence[Sequence[Sequence[str]]]
    ) -> list[ReactionFeature]:
        """One ``reaction_feature`` per row, in order. A row is a sequence
        of two or three key groups, each OR-combined into one block: the
        first group's block first, then one per later group, so a ranker
        row is ``((target,), *steps)``.

        A batch of one molecule costs about twice the time of the scalar
        rule while a large batch costs a fraction of it, so every key of
        ``rows`` that the memo lacks is fingerprinted first, in one batch."""
        self.memoize((key, None) for row in rows for group in row for key in group)
        return [
            reaction_feature(self.of_keys(row[0]), [self.of_keys(group) for group in row[1:]])
            for row in rows
        ]
