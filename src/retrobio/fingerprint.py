"""
Circular hashed fingerprints and similarity math.

A molecule fingerprint is a fixed-width bit vector. Every atom contributes
one code per radius r = 0..R: the r=0 code hashes the atom invariant
(element, degree, charge, total hydrogen count, aromatic flag); each later
code folds the previous code with the sorted (bond order, neighbour code)
pairs. An atom stops contributing new codes once its neighbourhood ball
stopped growing in the previous round, so an isolated atom yields exactly
two codes (r=0 and r=1) no matter the radius. That rule is computed only to
depth ``radius``: an atom's ball growth is followed for at most ``radius``
rounds, which is all the rule reads for codes up to ``radius``. Each code
sets bit ``code mod width``.

The 64-bit mixing hash is fixed and documented here so fingerprints are
bit-exact across implementations; test vectors live in the test suite.
Multi-component graphs OR their per-component bits, which is what computing
on the whole graph already does, because balls never cross components.

Reaction feature vectors concatenate the target block first, then one block
per precursor step (1024 bits for one step, 1536 for two at the default
512-bit molecule width). Multi-molecule precursor sets are OR-combined into
a single block before concatenation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from typing import Iterable, Sequence

import numpy as np

from .molgraph import (
    AROMATIC,
    DOUBLE,
    MolecularGraph,
    SINGLE,
    TRIPLE,
    parse_smiles,
)

__all__ = [
    "Fingerprint",
    "ReactionFeature",
    "WidthMismatch",
    "NegativeParameter",
    "mix64",
    "hash_words",
    "molecule_fingerprint",
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


def mix64(x: int) -> int:
    """SplitMix64 finalizer: the fixed bijective 64-bit mixer."""
    x &= _M64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _M64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _M64
    x ^= x >> 31
    return x


def hash_words(words: Iterable[int]) -> int:
    """Chain-hash a word sequence: h := mix64(h xor w), seeded with pi bits."""
    h = _SEED
    for w in words:
        h = mix64(h ^ (w & _M64))
    return h


_ELEMENT_NUMBER = {
    "H": 1, "C": 6, "N": 7, "O": 8, "F": 9,
    "P": 15, "S": 16, "Cl": 17, "Br": 35, "I": 53,
}
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


def _atom_invariant_word(mol: MolecularGraph, idx: int) -> int:
    atom = mol.atoms[idx]
    number = _ELEMENT_NUMBER.get(atom.element, 0)
    return (
        number
        | (min(mol.degree(idx), 15) << 8)
        | ((atom.charge & 0xFF) << 12)
        | (min(mol.total_hydrogens(idx), 15) << 20)
        | (int(atom.aromatic) << 24)
    )


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


def molecule_fingerprint(
    mol: MolecularGraph, width: int = 512, radius: int = 2
) -> Fingerprint:
    """Hash circular atom environments up to ``radius`` into a bit vector."""
    n = len(mol.atoms)
    codes = [hash_words([_atom_invariant_word(mol, i)]) for i in range(n)]
    # Round r adds atom i's code while r <= ecc(i) + 1, which for r up to
    # radius needs ecc(i) only up to radius.
    ecc = _ball_growth(mol, radius)
    bits = 0
    for i in range(n):
        bits |= 1 << (codes[i] % width)
    for r in range(1, radius + 1):
        nxt = []
        for i in range(n):
            pairs = sorted(
                (_BOND_CODE[o], codes[j]) for j, o in mol.neighbors(i)
            )
            words = [codes[i]]
            for code, nbr in pairs:
                words.append(code)
                words.append(nbr)
            nxt.append(hash_words(words))
        codes = nxt
        for i in range(n):
            if r <= ecc[i] + 1:
                bits |= 1 << (codes[i] % width)
    return Fingerprint(bits, width)


def combine_fingerprints(fps: Sequence[Fingerprint]) -> Fingerprint:
    """OR a non-empty group of equal-width fingerprints into one block."""
    if not fps:
        raise ValueError("cannot combine an empty fingerprint group")
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
    default 512-bit width and radius 2. The memo lives in memory only."""

    def __init__(self):
        self._cache: dict[str, Fingerprint] = {}

    def of_key(self, key: str, mol: MolecularGraph | None = None) -> Fingerprint:
        """Fingerprint of a canonical key. A cache miss fingerprints ``mol``,
        the caller's graph of that key, and parses the key only without one."""
        fp = self._cache.get(key)
        if fp is None:
            if mol is None:
                mol = parse_smiles(key)
            fp = molecule_fingerprint(mol)
            self._cache[key] = fp
        return fp

    def of_keys(
        self, keys: Sequence[str], mols: Sequence[MolecularGraph] = ()
    ) -> Fingerprint:
        """OR-combined block for a molecule set; ``mols``, when given, are
        the graphs of ``keys`` in the same order."""
        return combine_fingerprints(
            [self.of_key(k, m) for k, m in zip_longest(keys, mols)]
        )
